package switching

import (
	"gesmc/internal/conc"
	"gesmc/internal/hashset"
)

// EdgeSetOf returns the edge set held by the runner behind engine e; ok
// is false when e's stepper is not a GlobalStepper.
func EdgeSetOf(e *Engine) (set *hashset.Set, ok bool) {
	s, ok := e.st.(interface{ edgeSet() *hashset.Set })
	if !ok {
		return nil, false
	}
	return s.edgeSet(), true
}

func (s *GlobalStepper[E]) edgeSet() *hashset.Set { return s.runner.Set }

// DisableFilter makes the dependency table of the runner behind engine
// e link and probe every tuple, as a table without the tuple-count
// filter does; ok is false when e's stepper is not a GlobalStepper.
func DisableFilter(e *Engine) (ok bool) {
	s, ok := e.st.(interface{ depTable() *conc.DepTable })
	if ok {
		s.depTable().DisableFilter()
	}
	return ok
}

func (s *GlobalStepper[E]) depTable() *conc.DepTable { return s.runner.table }

// DisableRunnerFilter is DisableFilter for a bare runner.
func DisableRunnerFilter[E EdgeKind[E]](r *Runner[E]) { r.table.DisableFilter() }

// GatherBatch is phase 1's gather width.
const GatherBatch = gatherBatch
