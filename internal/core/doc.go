// Package core implements the paper's primary contribution: probabilistic
// safety and liveness analysis of consensus protocols under per-node fault
// probabilities (§3).
//
// A deployment is a fleet of nodes, each with a static fault profile
// (crash probability, Byzantine probability) over a mission window. There
// are 3^N failure configurations (each node correct, crashed, or
// Byzantine). A protocol model decides which configurations are safe and
// which are live — Theorem 3.1 for PBFT, Theorem 3.2 for Raft. The engine
// computes the exact probability mass of the safe (respectively live)
// configurations three independent ways:
//
//   - a count-based dynamic program over (#crashed, #Byzantine) outcomes —
//     exact, works for any fleet size. Each model's safe and live sets are
//     count regions (CountModel.Regions), so a domain-free analysis folds
//     the fleet once into three tables truncated to those regions
//     (dist.RegionPass, O(N·(β+1)·(κ+1))), and the domain engine folds
//     such tables through each domain's shock mixture; the full O(N^3)
//     joint table serves the quorum sweeps and is the engines' test
//     oracle. No engine evaluates Safe / Live per cell of a table;
//   - explicit enumeration of all 3^N configurations — exact, supports
//     predicates on the identity of failed nodes, N ≲ 16;
//   - Monte-Carlo sampling — approximate with confidence intervals, works
//     for any predicate and fleet size, and for correlated fault models.
//     It counts the model's predicates over draws from internal/montecarlo's
//     kernel (montecarlo.Draws, untilted), the one sampler of the failure
//     measure, so this package imports montecarlo and never the reverse.
//
// The three agree to float64 precision on their common domain, which the
// test suite exploits heavily.
//
// Beyond independent failures, nodes may belong to named failure domains
// (racks, zones, rollout cohorts — §2(3)'s correlated faults): each domain
// carries a common-cause shock that elevates member fault probabilities,
// and AnalyzeDomains computes the exact unconditional Result by
// conditioning: a domain's counts are the shock-weighted mixture of its
// base and elevated members' folds, so the tables fold through the domains
// one after another, forward for the fleet and backward for the failure
// tables of the domains after each one (domains.go, domaincache.go);
// AnalyzeDomainsConditioned, one region pass per shock subset, is its
// referee. An Evaluator caches only each domain's rest tables — the
// forward tables before it and the failure tables after it — so a query
// that changes one domain folds that domain onto them and answers with one
// dot product per region, and a full walk reads its answer off the same
// tables, so a repeat answers bit-identically. Invariants: with every shock probability zero
// the domain engine agrees with Analyze to 1e-12, one domain holding the
// whole fleet equals the shock-weighted mix of two Analyze calls (base and
// elevated fleet), and AnalyzeDomainsMonteCarlo brackets it within its
// Wilson intervals.
//
// The package also owns the canonical query fingerprint
// (FleetModelDomainsFingerprint): the serving layer's cache key, built so
// that two queries share a key only if their Results are provably equal.
// A Query resolves (fleet, model, domains) once, and its work estimate,
// fingerprint and engine run (AnalyzeQuery) all read that resolution.
package core
