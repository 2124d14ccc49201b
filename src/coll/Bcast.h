//===- coll/Bcast.h - Segmented tree broadcast schedules --------*- C++ -*-===//
//
// Part of the mpicsel project: model-based selection of MPI collective
// algorithms (reproduction of Nuriyev & Lastovetsky, PaCT 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Schedule generators for the six Open MPI broadcast algorithms. The
/// segmented tree algorithms follow `ompi_coll_base_bcast_intra_generic`
/// faithfully at the request level:
///
///  * the root sends each segment to all its children with
///    non-blocking sends and waits for them before starting the next
///    segment;
///  * an interior node double-buffers receives: in iteration s it
///    posts the receive of segment s, waits for segment s-1, forwards
///    it to every child with non-blocking sends and waits for those
///    sends;
///  * a leaf double-buffers receives (at most two outstanding).
///
/// These details -- which the traditional "mathematical definition"
/// models ignore -- are exactly what the paper's implementation-derived
/// models capture, so the generators keep them explicit.
///
/// Every generator appends its operations to a ScheduleBuilder and
/// returns one *exit* operation per rank (the schedule-level image of
/// the collective call returning on that rank). Passing the previous
/// collective's exits as \p Entry reproduces MPI per-rank program
/// order across consecutive calls.
///
//===----------------------------------------------------------------------===//

#ifndef MPICSEL_COLL_BCAST_H
#define MPICSEL_COLL_BCAST_H

#include "coll/Algorithms.h"
#include "mpi/Schedule.h"
#include "verify/Contract.h"

#include <cstdint>
#include <span>
#include <vector>

namespace mpicsel {

/// Parameters of one broadcast invocation.
struct BcastConfig {
  BcastAlgorithm Algorithm = BcastAlgorithm::Binomial;
  /// Total payload in bytes (>= 1).
  std::uint64_t MessageBytes = 1;
  /// Segment size for the segmented algorithms; 0 disables
  /// segmentation. The linear algorithm is never segmented (as in
  /// Open MPI's basic_linear).
  std::uint64_t SegmentBytes = 8 * 1024;
  /// Broadcast root.
  unsigned Root = 0;
  /// Number of chains of the K-chain algorithm (Open MPI default 4).
  unsigned KChainFanout = 4;
  /// Base message tag; the generator may use Tag .. Tag+2.
  int Tag = 0;
};

/// Number of segments the segmented algorithms would use for this
/// message (1 if SegmentBytes is 0 or >= MessageBytes).
std::uint64_t bcastSegmentCount(std::uint64_t MessageBytes,
                                std::uint64_t SegmentBytes);

/// Payload of segment \p Seg of the \p NumSegments (bcastSegmentCount)
/// that cut \p MessageBytes into \p SegmentBytes pieces: every segment
/// is full but the last, which carries the remainder.
std::uint64_t bcastSegmentBytes(std::uint64_t MessageBytes,
                                std::uint64_t SegmentBytes,
                                std::uint64_t NumSegments, std::uint64_t Seg);

/// The ops appendBcast emits for \p Config over \p NumProcs ranks, in
/// closed form. appendBcast reserves them itself; a caller that appends
/// another collective after the broadcast reserves both up front, so
/// that the second never reallocates the schedule's arrays mid-build.
std::uint64_t bcastOpCount(const BcastConfig &Config, unsigned NumProcs);

/// Appends one broadcast to \p B over all B.rankCount() ranks.
///
/// \param Entry either empty (the collective starts the schedule) or
/// one op per rank that the rank's first operation must depend on.
/// \returns one exit op per rank.
std::vector<OpId> appendBcast(ScheduleBuilder &B, const BcastConfig &Config,
                              std::span<const OpId> Entry = {});

/// The broadcast's data-movement contract for the static verifier
/// (verify/Verifier.h): every non-root rank receives exactly
/// MessageBytes originating (transitively) from the root, and the root
/// receives nothing -- true of all six algorithms, including
/// split-binary's half-exchange. Verify a schedule built by
/// appendBcast *alone*; composed schedules accumulate several
/// collectives' traffic.
ScheduleContract bcastContract(const BcastConfig &Config, unsigned RankCount);

} // namespace mpicsel

#endif // MPICSEL_COLL_BCAST_H
