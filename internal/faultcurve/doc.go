// Package faultcurve models per-server fault curves — the paper's p_u (§2).
//
// A fault curve captures the unique, time-dependent fault profile of a
// server. The package provides the hazard-rate models the reliability
// literature uses for hardware (constant/AFR, Weibull, the disk "bathtub"
// curve, piecewise rollout spikes), population mixtures, common-cause
// correlation shocks (§2(3)), and the tri-state crash/Byzantine split
// (§2(4): most faults are crashes, a small fraction — e.g. Google's ~0.01%
// mercurial-core rate vs a 4% AFR — are effectively Byzantine).
//
// A Curve is collapsed to a static failure probability over a mission
// window with FailProb; static probabilities are what the configuration
// analysis in internal/core consumes, mirroring §3's simplification.
//
// Correlated failures have one model: Domain, a named rack, zone or
// rollout cohort whose members share a common-cause shock (internal/core
// groups nodes by domain name; a fleet-wide shock is one domain every node
// belongs to). Invariant: elevation preserves the crash/Byzantine ratio when the scaled
// total would exceed 1 and always yields a valid profile, so conditioned
// analyses never see out-of-range probabilities.
package faultcurve
