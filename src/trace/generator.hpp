/**
 * @file
 * Synthetic trace generation: the workload-to-reference-stream engine.
 *
 * Each processor's stream mixes, per WorkloadConfig:
 *  - instruction fetches (instrPerData per data reference; sequential
 *    walk of the processor's code region — they never miss, Section
 *    4.1, but they consume processor cycles);
 *  - private data references (Zipf-reuse working set plus a steerable
 *    cold/streaming fraction that sets the private miss rate);
 *  - shared data references produced by the benchmark's SharedModel.
 *
 * Streams are deterministic functions of (config, seed, processor).
 */

#ifndef RINGSIM_TRACE_GENERATOR_HPP
#define RINGSIM_TRACE_GENERATOR_HPP

#include <memory>

#include "trace/address_map.hpp"
#include "trace/patterns.hpp"
#include "trace/stream.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace ringsim::trace {

/** Build the address map a workload's streams are laid out for. */
AddressMap makeAddressMap(const WorkloadConfig &cfg);

/** One processor's synthetic reference stream. */
class SyntheticStream : public RefStream
{
  public:
    /**
     * @param cfg workload description.
     * @param map address map (must outlive the stream).
     * @param proc this stream's processor id.
     */
    SyntheticStream(const WorkloadConfig &cfg, const AddressMap &map,
                    NodeId proc);

    bool next(TraceRecord &out) override;

  private:
    /** Next private-data block index for this processor. */
    std::uint64_t nextPrivateBlock();

    WorkloadConfig cfg_;
    const AddressMap &map_;
    NodeId proc_;
    Rng rng_;
    std::unique_ptr<SharedModel> sharedModel_;

    Count dataEmitted_ = 0;
    double instrDebt_ = 0.0;
    std::uint64_t codeCursor_ = 0;
    std::uint64_t privateStreamCursor_ = 0;
    std::uint64_t warmCursor_ = 0;

    /** Code loop length in blocks (fetch stream wraps around it). */
    static constexpr std::uint64_t codeLoopBlocks = 1024;
};

/** Build all per-processor streams of a workload. */
TraceSet makeTraceSet(const WorkloadConfig &cfg, const AddressMap &map);

} // namespace ringsim::trace

#endif // RINGSIM_TRACE_GENERATOR_HPP
