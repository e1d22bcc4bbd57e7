package interp

// Metamorphic store-state replay: executing the program's iterations in any
// legal order (one respecting every dependence edge) must leave every array
// element with exactly the same final value as program order. Rather than
// model real arithmetic, the replay assigns each write a value that hashes
// the writing statement instance together with the values it read, so any
// illegal reorder — a flow, anti, or output violation — propagates into a
// differing final state with overwhelming probability.

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FinalStoreState abstractly executes the iterations in the given order and
// returns the final store state: states[a][lin] is the hash value of
// array a's element lin after its last write. An element nothing writes
// keeps its seed value, which is recomputed, not stored, so the state is
// sized by the elements the iterations touch, never by the elements the
// arrays declare. order must be a permutation of the iteration ids;
// entries are trusted (use VerifySchedule for the legality oracle). Two
// permutations write the same elements, so their states are equal exactly
// when every element ends with the same value.
//
// Each element starts from a hash of its (array, element) identity. Each
// statement instance writes mix-fold(stmt identity, values read, in access
// order), so the value stored by a write depends on every value it read —
// the dataflow the dependence edges protect.
func (s *Space) FinalStoreState(order []int) []map[int64]uint64 {
	states := make([]map[int64]uint64, len(s.Prog.Arrays))
	for i := range states {
		states[i] = map[int64]uint64{}
	}
	var buf []Access
	for _, u := range order {
		buf = s.Accesses(u, buf[:0])
		i := 0
		for i < len(buf) {
			// One statement's group: reads first, then its write (if any).
			stmt := buf[i].Stmt
			j := i
			for j < len(buf) && buf[j].Stmt == stmt {
				j++
			}
			h := mix(uint64(u)<<16 | uint64(stmt))
			wrote := -1
			for k := i; k < j; k++ {
				a := buf[k]
				if a.Write {
					wrote = k
					continue
				}
				v, ok := states[a.Array.Index][a.Lin]
				if !ok {
					v = mix(uint64(a.Array.Index+1)<<32 ^ uint64(a.Lin))
				}
				h = mix(h ^ v)
			}
			if wrote >= 0 {
				a := buf[wrote]
				states[a.Array.Index][a.Lin] = h
			}
			i = j
		}
	}
	return states
}
