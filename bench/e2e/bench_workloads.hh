/**
 * @file
 * The five benchmark workloads: inputs generated from the seed, one
 * end-to-end repetition through the public entry points users call
 * (driver::BatchRunner::runAll, fault::runCampaign), and the traced
 * repetition that replays the same inputs as the public calls of each
 * layer, with a span around each call.
 */

#ifndef CWSP_BENCH_E2E_BENCH_WORKLOADS_HH
#define CWSP_BENCH_E2E_BENCH_WORKLOADS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "driver/batch_runner.hh"
#include "fault/campaign.hh"
#include "obs/durable_lin.hh"
#include "span_log.hh"

namespace cwsp::bench_e2e {

/** Inputs of one workload, generated from the seed. */
struct Inputs
{
    std::string workload;
    bool campaign = false; ///< items are crash cases, else design points
    unsigned jobs = 1;
    std::vector<driver::DesignPoint> points; ///< sweeps
    fault::CampaignOptions campaignOptions;  ///< campaigns
};

/**
 * Generate @p workload's inputs. Seed 1 is the calibrated roster;
 * @p smoke keeps the first app, the cwsp scheme (plus baseline for
 * sweeps), one interleaving schedule and one crash point per kind.
 * Throws on an unknown name.
 */
Inputs makeInputs(const std::string &workload, std::uint64_t seed,
                  unsigned jobs, bool smoke);

/** Outcome of one end-to-end repetition (one closed batch). */
struct E2eRep
{
    double wallS = 0.0;
    /** Per point: every RunResult field, bit-exact. Per case: the
     *  verdict tuple (label, pass, dl_verdict, recovery windows, lost
     *  work, divergences). Input order. */
    std::vector<std::string> items;
    std::vector<bool> pass; ///< per item; design points always pass
    std::uint64_t simInstrs = 0;         ///< sweeps
    driver::BatchStats batch;            ///< sweeps
    fault::CkptCacheReport ckpt;         ///< campaigns
    std::vector<core::RunResult> results; ///< sweeps
    std::vector<fault::CampaignCase> cases; ///< campaigns
};

/**
 * Run one repetition. Sweeps use a fresh BatchRunner whose disk cache
 * is the fresh, empty directory @p cache_dir (removed afterwards).
 */
E2eRep runE2e(const Inputs &in, const std::string &cache_dir);

/** One timed layer call with the instructions it simulated. */
struct InstrSample
{
    std::string scheme;
    std::int64_t ns = 0;
    std::uint64_t instrs = 0;
};

/** Per-layer counts of the traced runs (durations are in spans). */
struct TraceSamples
{
    std::uint64_t recordSteps = 0;
    std::uint64_t recordOps = 0;
    std::uint64_t recordBytes = 0;
    std::uint64_t goldenInstrs = 0;
    std::vector<InstrSample> replay;
    std::uint64_t lockstepInstrs = 0;
    std::vector<double> ckptMb; ///< one per captured checkpoint
    std::vector<double> dlStates;
    std::uint64_t dlChecked = 0;
    std::uint64_t dlConclusive = 0; ///< pass + violation
};

/** TraceSamples filled concurrently by the traced run's tasks. */
class SampleSink
{
  public:
    void record(const core::CommitStream &s);
    void replay(const std::string &scheme, std::int64_t ns,
                std::uint64_t instrs);
    void lockstep(std::uint64_t instrs);
    void golden(std::uint64_t instrs);
    void checkpoint(std::size_t bytes);
    void dl(const obs::DlResult &r);

    /** Read after the tasks have joined. */
    const TraceSamples &samples() const { return out_; }

  private:
    std::mutex mu_;
    TraceSamples out_; // guarded by mu_
};

/** Outcome of one traced repetition. */
struct TracedRep
{
    double wallS = 0.0;
    std::vector<std::string> items; ///< same encoding as E2eRep::items
    /** Per item; a concurrent case also fails when the re-run checker
     *  verdict differs from the one runCase reported. */
    std::vector<bool> pass;
};

/**
 * Run @p in decomposed into the public calls of each layer through
 * BatchRunner::runTasks with the same jobs, adding spans to @p log and
 * counts to @p sink. Campaigns run @p cases, the case list of an
 * end-to-end repetition.
 */
TracedRep runTraced(const Inputs &in,
                    const std::vector<fault::CampaignCase> &cases,
                    SpanLog &log, SampleSink &sink);

/**
 * Geometric-mean slowdown against baseline of every other scheme
 * swept at the default config, over the apps swept under both.
 */
std::vector<std::pair<std::string, double>>
gmeanSlowdowns(const Inputs &in, const std::vector<core::RunResult> &r);

} // namespace cwsp::bench_e2e

#endif // CWSP_BENCH_E2E_BENCH_WORKLOADS_HH
