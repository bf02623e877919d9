// A persistent packet-level session source for the fleet layer. DesScenario
// builds its simulator, medium and nodes on the stack for one batch run;
// a *serving* session instead needs the whole DES world to live as long as
// the session does, producing one round per measure() call across the
// session's lifetime. DesSessionSource owns that world (event queue, medium,
// protocol-node state machines, mobility) and exposes it through the same
// pipeline::MeasurementModel contract every other front-end uses, so a
// fleet session backed by full packet physics is a drop-in for one backed
// by the closed form.
#pragma once

#include <memory>
#include <vector>

#include "des/medium.hpp"
#include "des/mobility.hpp"
#include "des/protocol_node.hpp"
#include "des/scenario.hpp"
#include "pipeline/measurement.hpp"

namespace uwp::des {

class DesSessionSource final : public pipeline::MeasurementModel {
 public:
  // Same construction contract as DesScenario (cfg.rounds is ignored — the
  // fleet decides the session's lifetime). The mobility model is shared,
  // not owned. Non-movable: the medium, nodes and hooks hold pointers into
  // each other, so the fleet's MeasurementFeed keeps it behind a unique_ptr.
  DesSessionSource(DesScenarioConfig cfg, std::shared_ptr<const MobilityModel> mobility,
                   std::vector<audio::AudioTimingConfig> audio, Matrix connectivity);

  DesSessionSource(const DesSessionSource&) = delete;
  DesSessionSource& operator=(const DesSessionSource&) = delete;

  std::size_t size() const override { return nodes_.size(); }
  std::size_t rounds_run() const { return front_end_->rounds_run(); }
  double round_period_s() const { return period_; }
  const MediumStats& medium_stats() const { return medium_->stats(); }

  // Run one full slot-schedule round of the packet simulation and assemble
  // its measurement. The rng drives per-packet arrival errors (in event
  // order), sensor noise and votes — exactly DesScenario's draw order.
  void measure(pipeline::RoundMeasurement& out, uwp::Rng& rng) override;

 private:
  DesScenarioConfig cfg_;
  std::shared_ptr<const MobilityModel> mobility_;
  std::vector<audio::AudioTimingConfig> audio_;
  Matrix connectivity_;
  double period_ = 0.0;
  Simulator sim_;
  std::unique_ptr<AcousticMedium> medium_;
  std::vector<ProtocolNode> nodes_;
  std::unique_ptr<DesFrontEnd> front_end_;
  uwp::Rng* round_rng_ = nullptr;  // valid only inside measure()
};

}  // namespace uwp::des
