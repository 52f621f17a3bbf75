// Package quorum provides quorum-system abstractions for consensus analysis:
// node sets, classic majority and threshold systems, reliability-aware
// systems that must include dependable nodes (§3.2's
// "require quorums to include at least one reliable node"), and the
// probabilistic sampling quorums of §4 (intersect with high probability
// instead of always).
//
// Every system exposes the same Naor-Wool-style measures (load, capacity,
// availability) computed from per-node failure probabilities via
// internal/dist. Invariants: Set operations are O(1) bitmask updates with
// node index as identity; availability computations are exact (no
// sampling) for every system the package defines.
package quorum
