// Package exp contains the experiment drivers that regenerate every
// experiment table (T1..T15, A1..A5, listed in README.md) — the
// empirical validation of each theorem of Lin & Rajaraman (SPAA 2007)
// plus the ablations. Each driver returns a Table; cmd/suu-bench
// renders them and writes BENCH_sim.json (see docs/BENCH_SCHEMA.md).
//
// The drivers are built on the scenario-grid harness in grid.go:
// every Monte Carlo cell (one instance × one solver × one trial)
// derives its seeds from its own coordinates and evaluates on a
// worker pool, so tables are bit-identical at any Workers setting and
// any GOMAXPROCS while multi-core runs cut wall-clock time.
//
// The sharding layer (shard.go) cuts a sweep into fingerprinted,
// gap-retryable cell ranges for distributed execution; the sweep
// fingerprint excludes Workers and every other setting that must not
// change results, so envelopes from different runners merge only if
// they were cut from the same (config, plan) pair. The hashing
// itself lives in internal/fingerprint.
//
// This package also owns the machine-readable benchmark record: the
// SimBenchFile written as BENCH_sim.json by cmd/suu-bench, whose
// per-section structs (engine gates, LP bench, exact-solver scaling,
// grid harness, dispatch, serve) are documented field by field in
// docs/BENCH_SCHEMA.md. The CI gates read that file's sections, so
// its shape is a contract: field renames are schema changes.
package exp
