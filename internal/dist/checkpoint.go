package dist

import "sync"

// CheckpointStore collects per-rank loop-state snapshots of a
// distributed solver so a rerun can resume after a mid-run fault. A
// snapshot at iteration i is only usable once every rank has saved it —
// a crash mid-iteration leaves a partial set that Latest ignores, so a
// resume always starts from a globally consistent cut.
//
// The store is solver-agnostic: states are opaque deep copies owned by
// the saving solver. It is safe for concurrent use by all ranks of a
// run.
type CheckpointStore struct {
	mu    sync.Mutex
	snaps map[int]map[int]interface{} // iter → rank → state
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{snaps: map[int]map[int]interface{}{}}
}

// Save records rank's state at the end of iteration iter. The state must
// be a deep copy: the store never clones.
func (s *CheckpointStore) Save(iter, rank int, state interface{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snaps == nil {
		s.snaps = map[int]map[int]interface{}{}
	}
	byRank, ok := s.snaps[iter]
	if !ok {
		byRank = map[int]interface{}{}
		s.snaps[iter] = byRank
	}
	byRank[rank] = state
}

// Latest returns the newest iteration for which all p ranks have saved a
// snapshot, with the per-rank states indexed by rank. ok is false when
// no complete snapshot exists (including after a world-size change).
func (s *CheckpointStore) Latest(p int) (iter int, states []interface{}, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := -1
	for it, byRank := range s.snaps {
		if it <= best || len(byRank) < p {
			continue
		}
		complete := true
		for r := 0; r < p; r++ {
			if _, have := byRank[r]; !have {
				complete = false
				break
			}
		}
		if complete {
			best = it
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	states = make([]interface{}, p)
	for r := 0; r < p; r++ {
		states[r] = s.snaps[best][r]
	}
	return best, states, true
}
