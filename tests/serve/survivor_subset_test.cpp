// Degraded-serving property (elastic recovery, serve/spmd_engine): for
// EVERY non-empty survivor subset of a 4-rank world, the channel-subset
// forward over the survivor group — rebound via DchagFrontEnd::rebind
// with the original channel slots — matches the full-world forward over
// the same surviving channels bit-for-bit. This is the invariant that
// lets a degraded world keep answering during recovery: a degraded
// engine passes a full request's channel list through unchanged, so the
// survivor group's forward over ALL channels must equal it too, and a
// request naming only dead slots' channels must be a typed error on
// every survivor, never a hang.
#include <gtest/gtest.h>

#include <numeric>

#include "comm/communicator.hpp"
#include "core/dchag_frontend.hpp"
#include "model/foundation.hpp"

namespace dchag::serve {
namespace {

namespace ops = tensor::ops;
using comm::Communicator;
using core::DchagFrontEnd;
using model::ModelConfig;
using tensor::Index;
using tensor::Rng;
using tensor::Shape;
using tensor::Tensor;

constexpr int kRanks = 4;
constexpr Index kChannels = 8;  // c_local = 2 per rank

std::vector<Index> slot_channels(const std::vector<int>& slots,
                                 Index c_local) {
  std::vector<Index> chans;
  for (int s : slots)
    for (Index c = 0; c < c_local; ++c)
      chans.push_back(static_cast<Index>(s) * c_local + c);
  return chans;
}

Tensor gather_channels(const Tensor& images, const std::vector<Index>& ids) {
  std::vector<Tensor> slabs;
  for (Index c : ids) slabs.push_back(ops::slice(images, 1, c, 1));
  return slabs.size() == 1 ? slabs.front() : ops::concat(slabs, 1);
}

TEST(SurvivorSubset, EveryNonEmptySurvivorSetMatchesFullWorldBitForBit) {
  const ModelConfig cfg = ModelConfig::tiny();
  const Tensor img = Rng(31).normal_tensor(Shape{2, kChannels, 16, 16});
  const Index c_local = kChannels / kRanks;

  for (unsigned mask = 1; mask < (1u << kRanks); ++mask) {
    std::vector<int> survivors;
    for (int r = 0; r < kRanks; ++r)
      if (mask & (1u << r)) survivors.push_back(r);
    const std::vector<Index> chans = slot_channels(survivors, c_local);
    const Tensor sub_img = gather_channels(img, chans);
    // A narrower request owned entirely by the FIRST survivor: on the
    // survivor group every other rank takes the empty-intersection
    // zero-placeholder path — the same path a degraded engine serves
    // full-channel requests through.
    const std::vector<Index> narrow =
        slot_channels({survivors.front()}, c_local);
    const Tensor narrow_img = gather_channels(img, narrow);
    std::vector<int> all_slots(kRanks);
    std::iota(all_slots.begin(), all_slots.end(), 0);
    const std::vector<Index> all = slot_channels(all_slots, c_local);
    std::vector<int> dead;
    for (int r = 0; r < kRanks; ++r)
      if (!(mask & (1u << r))) dead.push_back(r);
    const std::vector<Index> dead_chans = slot_channels(dead, c_local);

    comm::World world(kRanks);
    world.run([&](Communicator& comm) {
      autograd::NoGradGuard no_grad;
      Rng master(21);
      DchagFrontEnd fe(cfg, kChannels, comm,
                       {1, model::AggLayerKind::kLinear}, master);
      // Oracle: the healthy full-width group serving the same subsets.
      const Tensor full_sub = fe.forward_subset(sub_img, chans).value();
      const Tensor full_narrow =
          fe.forward_subset(narrow_img, narrow).value();
      if (!(mask & (1u << comm.rank()))) return;  // not a survivor

      Communicator surv = comm.split_survivors(survivors, "survivors");
      fe.rebind(surv, survivors);
      EXPECT_EQ(ops::max_abs_diff(fe.forward_subset(sub_img, chans).value(),
                                  full_sub),
                0.0f)
          << "mask " << mask << " rank " << comm.rank();
      EXPECT_EQ(
          ops::max_abs_diff(fe.forward_subset(narrow_img, narrow).value(),
                            full_narrow),
          0.0f)
          << "mask " << mask << " narrow on rank " << comm.rank();
      // The full request, as a degraded engine serves it.
      EXPECT_EQ(ops::max_abs_diff(fe.forward_subset(img, all).value(),
                                  full_sub),
                0.0f)
          << "mask " << mask << " all channels on rank " << comm.rank();
      if (!dead.empty()) {
        EXPECT_THROW((void)fe.forward_subset(
                         gather_channels(img, dead_chans), dead_chans),
                     Error)
            << "mask " << mask << " dead-only on rank " << comm.rank();
      }
    });
  }
}

}  // namespace
}  // namespace dchag::serve
