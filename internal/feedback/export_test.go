package feedback

// Tick runs the clock-age check against every column group at once. The
// store runs it per group, on that group's feedback and on DML churn against
// its table; tests call Tick to age a store nothing touches.
func (s *Store) Tick(ts int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for colgrp, g := range s.groups {
		s.ageCheck(ts, colgrp, g)
	}
}
