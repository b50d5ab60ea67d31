package switching

import "gesmc/internal/conc"

// EdgeSetOf returns the concurrent edge set held by the runner behind
// engine e; ok is false when e's stepper is not a GlobalStepper.
func EdgeSetOf(e *Engine) (set *conc.EdgeSet, ok bool) {
	s, ok := e.st.(interface{ edgeSet() *conc.EdgeSet })
	if !ok {
		return nil, false
	}
	return s.edgeSet(), true
}

func (s *GlobalStepper[E]) edgeSet() *conc.EdgeSet { return s.runner.Set }
