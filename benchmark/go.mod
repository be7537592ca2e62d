// The benchmark is a module of its own because the benchmark driver's
// contract asks a compiled benchmark for "a package of its own in the
// benchmark's directory, with its own build file" (README, "What the
// driver's contract decides"). It compiles against the checkout it sits
// in; the path lets it import hpas/internal/...
module hpas/benchmark

go 1.22

require hpas v0.0.0

replace hpas => ../
