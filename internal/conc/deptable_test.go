package conc

import "testing"

func TestDepTableStoreLookup(t *testing.T) {
	dt := NewDepTable(8)
	dt.Reset(4, 0)

	e := edge(1, 2)
	f := edge(3, 4)
	// Switch 0 erases e; switches 1 and 2 insert e; switch 3 inserts f.
	dt.Store(0, 0, e, KindErase)
	dt.Store(1, 2, e, KindInsert)
	dt.Store(2, 2, e, KindInsert)
	dt.Store(3, 2, f, KindInsert)

	if p, pok, q, st, qok := dt.Probe(e); !pok || p != 0 || !qok || q != 1 || st != StatusUndecided {
		t.Fatalf("Probe(e) = %d, %v, %d, %d, %v", p, pok, q, st, qok)
	}
	if _, pok, q, _, qok := dt.Probe(f); pok || !qok || q != 3 {
		t.Fatalf("Probe(f) = eraser %v, inserter %d, %v; want no eraser, inserter 3", pok, q, qok)
	}
	if _, pok, _, _, qok := dt.Probe(edge(9, 10)); pok || qok {
		t.Fatal("Probe of unknown edge found a tuple")
	}
}

func TestDepTableProbeSkipsIllegal(t *testing.T) {
	dt := NewDepTable(8)
	dt.Reset(4, 0)
	e := edge(5, 6)
	dt.Store(0, 2, e, KindInsert)
	dt.Store(1, 2, e, KindInsert)
	dt.Store(2, 2, e, KindInsert)

	dt.SetStatus(0, StatusIllegal)
	if _, _, q, st, ok := dt.Probe(e); !ok || q != 1 || st != StatusUndecided {
		t.Fatalf("Probe after illegal[0] = %d, %d, %v", q, st, ok)
	}
	dt.SetStatus(1, StatusLegal)
	if _, _, q, st, ok := dt.Probe(e); !ok || q != 1 || st != StatusLegal {
		t.Fatalf("Probe with legal[1] = %d, %d, %v", q, st, ok)
	}
	dt.SetStatus(1, StatusIllegal)
	dt.SetStatus(2, StatusIllegal)
	if _, pok, _, _, ok := dt.Probe(e); ok || pok {
		t.Fatal("Probe found a tuple though all inserters illegal and none erases")
	}
}

func TestDepTableResetClears(t *testing.T) {
	dt := NewDepTable(8)
	dt.Reset(2, 0)
	e := edge(1, 2)
	dt.Store(0, 0, e, KindErase)
	dt.SetStatus(0, StatusLegal)

	dt.Reset(2, 0)
	if _, ok, _, _, _ := dt.Probe(e); ok {
		t.Fatal("tuple survived Reset")
	}
	if dt.StatusOf(0) != StatusUndecided {
		t.Fatal("status survived Reset")
	}
}

func TestDepTableConcurrentStore(t *testing.T) {
	const nSwitches = 4096
	dt := NewDepTable(nSwitches)
	dt.Reset(nSwitches, 0)
	pool := NewPool(8)
	defer pool.Close()
	// Every switch k stores four tuples; several switches share target
	// edges to build long chains.
	pool.Blocks(nSwitches, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			dt.Store(k, 0, edge(uint32(2*k), uint32(2*k+1)), KindErase)
			dt.Store(k, 1, edge(uint32(2*k+1), uint32(2*k+2)), KindErase)
			dt.Store(k, 2, edge(uint32(k%7), uint32(100+k%7)), KindInsert)
			dt.Store(k, 3, edge(uint32(k%5), uint32(200+k%5)), KindInsert)
		}
	})
	// Every erase tuple must be findable.
	for k := 0; k < nSwitches; k++ {
		if p, ok, _, _, _ := dt.Probe(edge(uint32(2*k), uint32(2*k+1))); !ok || p != k {
			t.Fatalf("lost erase tuple of switch %d (got %d, %v)", k, p, ok)
		}
	}
	// The minimum inserter of each shared target must be the smallest k
	// in its residue class.
	for r := 0; r < 7; r++ {
		_, _, q, _, ok := dt.Probe(edge(uint32(r), uint32(100+r)))
		if !ok || q != r {
			t.Fatalf("Probe residue %d: min inserter %d, %v", r, q, ok)
		}
	}
}

func TestDepTableCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset beyond capacity did not panic")
		}
	}()
	dt := NewDepTable(2)
	dt.Reset(3, 0)
}

func TestDepTableSurvivorProbe(t *testing.T) {
	dt := NewDepTable(4)
	dt.Reset(2, 3)
	s := edge(7, 8)
	e := edge(1, 2)
	dt.Store(0, 0, e, KindErase)
	dt.Store(1, 2, s, KindInsert)
	dt.StoreSurvivor(0, edge(3, 4))
	dt.StoreSurvivor(2, s)
	if p, pok, q, _, qok := dt.Probe(s); !pok || p != SurvivorIdx || !qok || q != 1 {
		t.Fatalf("Probe(survivor) = eraser %d, %v, inserter %d, %v; want %d, true, 1, true",
			p, pok, q, qok, SurvivorIdx)
	}
	if p, pok, _, _, _ := dt.Probe(edge(3, 4)); !pok || p != SurvivorIdx {
		t.Fatalf("Probe(survivor 0) = %d, %v", p, pok)
	}
	if p, pok, _, _, _ := dt.Probe(e); !pok || p != 0 {
		t.Fatalf("Probe(sourced) = %d, %v; survivors disturbed the switch tuples", p, pok)
	}
	dt.Reset(2, 0)
	if _, pok, _, _, _ := dt.Probe(s); pok {
		t.Fatal("survivor tuple outlived Reset")
	}
}

// fillGlobal stores a global superstep over m edges with l switches the
// way the kernel does: 4l switch tuples, then m − 2l survivors.
func fillGlobal(dt *DepTable, m, l int) {
	dt.Reset(l, m-2*l)
	for k := 0; k < l; k++ {
		dt.Store(k, 0, edge(uint32(2*k), uint32(2*k+1)), KindErase)
		dt.Store(k, 1, edge(uint32(2*k+1), uint32(2*k+2)), KindErase)
		dt.Store(k, 2, edge(uint32(k), uint32(m+k)), KindInsert)
		dt.Store(k, 3, edge(uint32(k+1), uint32(m+k)), KindInsert)
	}
	for j := 0; j < m-2*l; j++ {
		dt.StoreSurvivor(j, edge(uint32(3*m+j), uint32(4*m+j)))
	}
}

func TestDepTableCapacityOddGlobal(t *testing.T) {
	// Odd m with ℓ = ⌊m/2⌋ fills 4⌊m/2⌋ + 1 slots: the arena's last one.
	for _, m := range []int{3, 5, 101, 1001} {
		dt := NewDepTable(m / 2)
		fillGlobal(dt, m, m/2)
		if p, ok, _, _, _ := dt.Probe(edge(uint32(3*m), uint32(4*m))); !ok || p != SurvivorIdx {
			t.Fatalf("m=%d: survivor in the last slot not found (%d, %v)", m, p, ok)
		}
	}
}

func TestDepTableCapacityFewSwitchesManySurvivors(t *testing.T) {
	// A large loop probability leaves small ℓ and nearly m survivors.
	for _, m := range []int{2, 3, 100, 1001} {
		for _, l := range []int{0, 1, m / 4} {
			dt := NewDepTable(m / 2)
			fillGlobal(dt, m, l)
			for j := 0; j < m-2*l; j++ {
				if p, ok, _, _, _ := dt.Probe(edge(uint32(3*m+j), uint32(4*m+j))); !ok || p != SurvivorIdx {
					t.Fatalf("m=%d l=%d: survivor %d lost", m, l, j)
				}
			}
		}
	}
}

func TestDepTableSurvivorCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset beyond the arena did not panic")
		}
	}()
	dt := NewDepTable(2)
	dt.Reset(2, 2) // 4·2 + 2 = 10 > 9 slots
}
