// Package curveball implements the Curveball Markov chain and its Global
// Curveball variant for simple undirected graphs — the related sampling
// chain the paper compares against conceptually (§1.1; Carstens, Berger
// & Strona 2016, and the Global Curveball of Carstens et al., ESA 2018).
// A trade between two nodes shuffles their disjoint neighborhoods; a
// global trade pairs every node exactly once via a random permutation.
//
// Engine (parallel.go) is the only trade implementation: global trades
// and batched local trades execute as conflict-free parallel supersteps
// on the unified switching kernel, under a per-batch edge ownership
// discipline, bit-identical for every worker count (DESIGN.md §4). The
// public Sampler's Curveball chains and the mixing diagnostic run on
// it. Reference is its sequential test oracle: the same batches
// executed trade by trade on plain data structures.
package curveball
