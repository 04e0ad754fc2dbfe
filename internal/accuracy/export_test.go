package accuracy

// Tick runs the clock-age check against every tracked statistic at once.
// The engine runs it per statistic, on that statistic's feedback and on DML
// churn against its table; tests call Tick to age a ledger nothing touches.
// One field load when disabled.
func (l *Ledger) Tick(ts int64) {
	if l == nil || !l.enabled {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for key, e := range l.stats {
		l.ageCheck(ts, key, e)
	}
}
