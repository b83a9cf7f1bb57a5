// Package clockuse exercises clockcheck: direct wall-clock reads in
// non-test engine code are findings; a documented //lint:allow is the
// only way past, and an allow without a reason, or naming no analyzer of
// the suite, suppresses nothing.
package clockuse

import "time"

func Violations() time.Duration {
	now := time.Now()                   // want `wall-clock call time\.Now`
	time.Sleep(time.Millisecond)        // want `wall-clock call time\.Sleep`
	tick := time.NewTicker(time.Second) // want `wall-clock call time\.NewTicker`
	tick.Stop()
	return time.Since(now) // want `wall-clock call time\.Since`
}

// Conforming: pure time arithmetic and construction never observe the
// host clock.
func Conforming() time.Time {
	base := time.Unix(0, 0)
	return base.Add(3 * time.Second)
}

// AllowedWithReason: a documented allow suppresses the finding.
func AllowedWithReason() time.Time {
	//lint:allow clockcheck fixture: this path deliberately reads the host clock
	return time.Now()
}

// AllowedSameLine: the allow may also sit on the flagged line itself.
func AllowedSameLine() time.Time {
	return time.Now() //lint:allow clockcheck fixture: host-clock read is the point here
}

// AllowWithoutReason: an allow with no justification is inert — the
// finding stands.
func AllowWithoutReason() time.Time {
	//lint:allow clockcheck
	return time.Now() // want `wall-clock call time\.Now`
}

// AllowUnknownAnalyzer: an allow naming no analyzer of the suite is a
// finding itself, and suppresses nothing.
func AllowUnknownAnalyzer() time.Time {
	//lint:allow nosuchcheck fixture // want `allow names no analyzer of the suite: "nosuchcheck"`
	return time.Now() // want `wall-clock call time\.Now`
}
