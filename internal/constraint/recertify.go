package constraint

import "gesmc/internal/switching"

// Recertify is the parallel chains' speculate-then-recertify mode: the
// superstep just executed by the runner applied its switches
// optimistically (local constraints were enforced in the decide phase;
// connectivity was not). Recertify checks the certificate on the
// resulting edge list and, if it broke, rolls accepted switches back in
// reverse commit order — the inverse of the sequential application
// order the kernel's exactness guarantees — until connectivity is
// restored. Termination is guaranteed because the pre-superstep state
// was connected (chain invariant).
//
// It returns the number of switches rolled back (0 in the common case
// of a superstep that kept the graph connected). The tracker's
// certificate is rebuilt over the committed state in every case, so
// the next superstep starts certified.
//
// Rolling back in reverse commit order is exact: the kernel's edge
// list after the superstep is bit-identical to sequentially applying
// the accepted switches in index order, so undoing switch k restores
// precisely the sequential state after switches 0..k-1. The resulting
// chain differs from the sequential constrained chain (which rejects
// the first disconnecting switch and keeps evaluating against the
// repaired state), but it is deterministic per seed and — because the
// accepted set and the rollback order are both worker-count
// independent — identical for every worker count.
func Recertify[E switching.EdgeKind[E]](r *switching.Runner[E], t *Tracker) int {
	if Certify(t, r.E) {
		return 0
	}
	rolled := 0
	for k := r.NumSwitches() - 1; k >= 0; k-- {
		if !r.Accepted(k) {
			continue
		}
		r.Rollback(k)
		rolled++
		if Connected(t, r.E) {
			break
		}
	}
	Certify(t, r.E)
	return rolled
}
