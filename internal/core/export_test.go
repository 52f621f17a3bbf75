package core

// LayoutResolves reads the process-wide count of domain-layout resolves
// for the external tests (TestOneResolvePerRequest).
func LayoutResolves() int64 { return layoutResolves.Load() }
