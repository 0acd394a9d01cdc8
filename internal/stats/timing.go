package stats

import "time"

// NanosPerOp measures op's wall-clock cost with calibrated
// repetitions: a first call sizes a batch lasting about target (capped
// at maxReps calls), and the batch's mean nanoseconds per call is
// returned. The first error op returns aborts the measurement. It is
// the one timing loop shared by the krum-bench CLI and the Lemma 4.1
// harness.
func NanosPerOp(target time.Duration, maxReps int, op func() error) (float64, error) {
	start := time.Now()
	if err := op(); err != nil {
		return 0, err
	}
	first := time.Since(start)
	reps := 1
	if first < target {
		reps = int(target/(first+time.Nanosecond)) + 1
		if reps > maxReps {
			reps = maxReps
		}
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if err := op(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps), nil
}
