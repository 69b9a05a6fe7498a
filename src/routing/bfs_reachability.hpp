// Generic reachability oracle: breadth-first search over the alive subgraph.
// Works on ANY topology (leaf-spine, VL2, Jellyfish, hand-built test
// graphs) — the price is O(V + E) per flood instead of the fat-tree
// oracle's O(k) closed-form answers.
//
// Over the undirected alive graph reachability is an equivalence relation,
// so the oracle answers from per-round component labels. border_reachable()
// floods once per round from the external node, which labels the external
// node's component; host_to_host() answers from that flood when either end
// lies in it, and otherwise floods from `a` once, labelling `a`'s whole
// component. Each component is thus flooded at most once per round, and
// every later query is O(1). When the round is begun with a query-target
// hint (begin_round(rs, hosts)), floods terminate as soon as every alive
// target host is marked — the rest of the graph can no longer change any
// answer the round is allowed to ask for.
#pragma once

#include <vector>

#include "routing/oracle.hpp"
#include "topology/links.hpp"

namespace recloud {

class bfs_reachability final : public reachability_oracle {
public:
    /// `links` is optional; when given, floods also require the traversed
    /// link's component to be alive in the current round. Must outlive the
    /// oracle. The per-edge component ids are copied into a flat array at
    /// construction so the flood inner loop reads them without indirection.
    explicit bfs_reachability(const built_topology& topo,
                              const link_attachment* links = nullptr);

    void begin_round(round_state& rs) override;
    void begin_round(round_state& rs,
                     std::span<const node_id> query_hosts) override;
    [[nodiscard]] bool border_reachable(node_id host) override;
    [[nodiscard]] bool host_to_host(node_id a, node_id b) override;
    /// Flood-based cleanliness: settles the external flood (completes any
    /// hint-truncated frontier), then checks that every host — alive, or
    /// failed but assumed alive — sits adjacent to the external-connected
    /// alive region via an alive link. That region is one connected alive
    /// subgraph containing the border, so under the condition every query
    /// any plan could ask degenerates to host aliveness.
    [[nodiscard]] bool round_fully_connected(
        std::span<const component_id> raw_failed) override;
    [[nodiscard]] std::unique_ptr<reachability_oracle> clone() const override;
    [[nodiscard]] const link_attachment* consulted_links()
        const noexcept override {
        return links_;
    }

    /// Test hook: fast-forwards the component-label stamp so the uint32
    /// wrap-around hardening can be exercised without 2^32 floods.
    /// Takes effect from the next begin_round.
    void set_label_stamp_for_test(std::uint32_t stamp) noexcept {
        label_stamp_ = stamp;
    }

private:
    /// Floods the alive subgraph from `source`; marks reached nodes in
    /// `mark` with `stamp`. The stamp must be fresh for that mark array
    /// (marks of earlier floods would otherwise leak into the result).
    /// Stops early once every alive query-target host is marked (only when
    /// the round carries a target hint). Returns true iff the flood ran to
    /// exhaustion — i.e. the marks are "settled" and valid for ANY query,
    /// not just the hinted targets.
    bool flood(node_id source, std::vector<std::uint32_t>& mark,
               std::uint32_t stamp);

    /// Makes the external marks valid for the current round, reusing the
    /// previous round's flood when both rounds share the same raw
    /// failed-set (incremental reseeding: across plans the CRN streams
    /// replay identical rounds, only the query hint changes).
    void ensure_external_flood();

    /// Completes a hint-truncated external flood: reseeds the BFS queue
    /// from every already-marked node and drains it with the early exit
    /// disabled. Re-flooding with the same stamp would stall instead — the
    /// marked frontier's neighbors are marked and would never be enqueued.
    void settle_external_flood();

    const built_topology* topo_;
    const link_attachment* links_;  ///< kept for clone(); queries use the flat copy
    round_state* rs_ = nullptr;

    /// Flat per-edge link component ids (empty when no link attachment):
    /// the inner flood loop indexes this directly instead of calling
    /// link_attachment::link_failed through a lambda.
    std::vector<component_id> edge_components_;

    std::vector<std::uint32_t> external_mark_;  ///< stamped reach-from-external
    bool external_flooded_ = false;  ///< marks valid for the current round
    /// Monotonic stamp for external floods — oracle-owned (not the round
    /// epoch) so marks may outlive the round that produced them and be
    /// reused by a later round with the identical raw failed-set. Wraps
    /// like label_stamp_.
    std::uint32_t external_stamp_ = 0;
    bool external_settled_ = false;  ///< current marks ran to exhaustion
    /// Raw failed-set snapshot the external marks were computed from.
    bool last_flood_valid_ = false;
    const round_state* last_flood_rs_ = nullptr;
    std::uint64_t last_flood_hash_ = 0;
    std::vector<component_id> last_flood_raw_;

    /// Per node: the stamp of the flood that labelled its component, for
    /// components outside the external node's. A label belongs to the
    /// current round iff it exceeds label_floor_.
    std::vector<std::uint32_t> label_;
    /// Monotonic stamp, one per component flood: several components can be
    /// labelled within ONE round, so the round epoch alone cannot key the
    /// labels. On uint32 wrap-around label_ is cleared (a stale label from
    /// 2^32 floods ago could otherwise alias a fresh stamp).
    std::uint32_t label_stamp_ = 0;
    std::uint32_t label_floor_ = 0;  ///< label_stamp_ when the round began

    // Query-target hint of the current round (begin_round overload).
    bool targets_active_ = false;
    std::uint64_t hint_hash_ = 0;         ///< cheap pre-check before std::equal
    std::vector<node_id> hint_hosts_;     ///< as passed (identity check)
    std::vector<node_id> unique_targets_; ///< deduplicated
    std::vector<std::uint8_t> target_mark_;  ///< per node: 1 iff a target

    std::vector<node_id> queue_;  ///< scratch BFS queue
};

}  // namespace recloud
