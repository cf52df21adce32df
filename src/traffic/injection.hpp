/**
 * @file
 * Packet injection processes.
 *
 * The paper uses a "constant rate source inject[ing] packets at a
 * percentage of the capacity of the network". We provide both a
 * Bernoulli process (geometric inter-arrivals, the common open-loop
 * model) and a periodic process (fixed inter-arrival with fractional
 * accumulation). Rates are given in flits/node/cycle and converted to
 * packets internally.
 */

#ifndef FRFC_TRAFFIC_INJECTION_HPP
#define FRFC_TRAFFIC_INJECTION_HPP

#include <memory>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace frfc {

class Config;

/** Decides, per node per cycle, whether a new packet is generated. */
class InjectionProcess
{
  public:
    virtual ~InjectionProcess() = default;

    /** True if this node generates a packet during this cycle. */
    virtual bool inject(Rng& rng) = 0;

    /** Packet generation rate in packets/node/cycle. */
    virtual double packetRate() const = 0;

    virtual std::string describe() const = 0;
};

/** Bernoulli: independently each cycle with probability rate. */
class BernoulliInjection : public InjectionProcess
{
  public:
    explicit BernoulliInjection(double packets_per_cycle);
    bool inject(Rng& rng) override;
    double packetRate() const override { return rate_; }
    std::string describe() const override { return "bernoulli"; }

  private:
    double rate_;
};

/** Periodic: deterministic fractional accumulator (jitter-free). */
class PeriodicInjection : public InjectionProcess
{
  public:
    explicit PeriodicInjection(double packets_per_cycle);
    bool inject(Rng& rng) override;
    double packetRate() const override { return rate_; }
    std::string describe() const override { return "periodic"; }

  private:
    double rate_;
    double credit_ = 0.0;
};

/**
 * Build an injection process.
 * @param cfg              reads workload.injection (bernoulli | periodic)
 * @param flits_per_cycle  offered load in flits/node/cycle
 * @param packet_length    flits per packet
 */
std::unique_ptr<InjectionProcess>
makeInjection(const Config& cfg, double flits_per_cycle, int packet_length);

}  // namespace frfc

#endif  // FRFC_TRAFFIC_INJECTION_HPP
