// The benchmark is a module of its own so that it builds from its own
// directory and stays out of the parent module's ./... patterns. The module
// path keeps the repro/ prefix because the harness drives repro/internal/...
// packages, which Go only lets importers under repro/ reach.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
