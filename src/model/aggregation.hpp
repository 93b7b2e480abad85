// Hierarchical cross-channel aggregation (paper §3.2, Fig. 3).
//
// A tree of aggregation units reduces C channel tokens to one. Each level
// partitions its inputs into groups of at most `max_group_width`; every
// group gets its own unit (own weights). With max_group_width = C the tree
// degenerates to the single-layer baseline; the paper's TreeN variants use
// N first-level units of width C/N. Cost per level is linear in the number
// of surviving tokens, which is what turns the aggregator's quadratic
// memory in C into ~C * width.
#pragma once

#include <memory>
#include <vector>

#include "model/attention.hpp"

namespace dchag::model {

/// Static structure of an aggregation tree: widths of every unit, level by
/// level. Pure function of (channels, max_group_width) — shared between
/// the executable module and the analytic hw model so both always agree.
struct TreePlan {
  std::vector<std::vector<Index>> level_widths;

  [[nodiscard]] Index num_levels() const {
    return static_cast<Index>(level_widths.size());
  }
  [[nodiscard]] Index num_units() const {
    Index n = 0;
    for (const auto& level : level_widths)
      n += static_cast<Index>(level.size());
    return n;
  }
  /// Largest single-unit width anywhere in the tree (drives peak
  /// cross-attention score memory).
  [[nodiscard]] Index max_width() const {
    Index m = 0;
    for (const auto& level : level_widths)
      for (Index w : level) m = std::max(m, w);
    return m;
  }
};

[[nodiscard]] TreePlan plan_tree(Index channels, Index max_group_width);

/// Number of first-level units for the paper's TreeN naming: Tree0/Tree1
/// mean one unit over all channels; TreeN means N units of width C/N.
[[nodiscard]] Index tree_units_to_width(Index channels, Index units);

/// Total parameters of a tree built from `plan` with `kind` units.
[[nodiscard]] Index tree_params(const ModelConfig& cfg, AggLayerKind kind,
                                const TreePlan& plan);

class AggregationTree : public ChannelAggregator {
 public:
  AggregationTree(const ModelConfig& cfg, AggLayerKind kind, Index channels,
                  Index max_group_width, Rng& rng,
                  const std::string& name = "tree");

  /// Paper naming: TreeN = N first-level units (0/1 = single unit).
  static std::unique_ptr<AggregationTree> with_units(
      const ModelConfig& cfg, AggLayerKind kind, Index channels, Index units,
      Rng& rng, const std::string& name = "tree");

  /// tokens: [B, S, C, D] -> [B, S, D]; forward_subset over every slot.
  [[nodiscard]] Variable forward(const Variable& tokens) const override;
  /// The tree walk (also serving a channel subset, paper §2.1): each
  /// token is routed to the unit owning its slot; units with no present
  /// slots are skipped, and the surviving group outputs propagate up the
  /// tree the same way. Because slots are sorted and groups own contiguous
  /// slot ranges, every unit's inputs stay one contiguous slice. With
  /// every slot present each unit runs its plain full-width forward.
  [[nodiscard]] Variable forward_subset(
      const Variable& tokens, std::span<const Index> slots) const override;
  [[nodiscard]] Index width() const override { return channels_; }
  [[nodiscard]] const TreePlan& plan() const { return plan_; }

 private:
  ModelConfig cfg_;
  Index channels_;
  TreePlan plan_;
  std::vector<Index> all_slots_;  // 0..channels-1
  // units_[level][group]
  std::vector<std::vector<std::unique_ptr<ChannelAggregator>>> units_;
};

}  // namespace dchag::model
