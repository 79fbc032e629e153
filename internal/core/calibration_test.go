package core

import (
	"math"
	"sync"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/observe"
	"tinymlops/internal/rollout"
	"tinymlops/internal/tensor"
)

// calibrationSet is a 6-feature reference set with one constant feature,
// so the std-floor branch is exercised too.
func calibrationSet(rows int) *dataset.Dataset {
	ds := dataset.Blobs(tensor.NewRNG(31), rows, 6, 3, 5)
	for i := 0; i < rows; i++ {
		ds.X.Set2(i, 2, 7)
	}
	return ds
}

// columnMonitor is the reference calibration: transpose the set with
// ColumnsOf, then run Welford down each column.
func columnMonitor(t *testing.T, ref *dataset.Dataset) (*observe.Monitor, []float64, []float64) {
	t.Helper()
	n := ref.Len()
	es := ref.X.Size() / n
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = ref.X.Data[i*es : (i+1)*es]
	}
	cols := observe.ColumnsOf(rows)
	h := 10 + 4*float64(log2Ceil(len(cols)))
	var means, stds []float64
	mon, err := observe.NewMonitor(cols, func(col []float64) (observe.Detector, error) {
		var w observe.Welford
		for _, v := range col {
			w.Add(v)
		}
		std := w.Std()
		if std <= 0 {
			std = 1
		}
		means, stds = append(means, w.Mean()), append(stds, std)
		return observe.NewCUSUMDetector(w.Mean(), std, 0.5, h)
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon, means, stds
}

// TestCalibrationMatchesColumnWelford pins the one-pass row-major
// calibration bit-exactly to the per-column build, and checks a monitor
// built from it raises the same alarm at the same tick on a drifted
// stream, with the same score at every tick.
func TestCalibrationMatchesColumnWelford(t *testing.T) {
	ref := calibrationSet(500)
	want, means, stds := columnMonitor(t, ref)
	cal, err := newCalibration(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.mean) != len(means) || cal.h != 10+4*float64(log2Ceil(len(means))) {
		t.Fatalf("calibration has %d features, h=%v", len(cal.mean), cal.h)
	}
	for f := range means {
		if math.Float64bits(cal.mean[f]) != math.Float64bits(means[f]) ||
			math.Float64bits(cal.std[f]) != math.Float64bits(stds[f]) {
			t.Fatalf("feature %d: mean/std %v/%v, column build %v/%v", f, cal.mean[f], cal.std[f], means[f], stds[f])
		}
	}
	got, err := cal.monitor()
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 6)
	for i := 0; i < 600; i++ {
		copy(x, ref.X.Data[(i%ref.Len())*6:])
		if i >= 200 {
			x[1] += 3 // a persistent mean shift on one feature
		}
		want.Observe(x)
		got.Observe(x)
		if math.Float64bits(got.MaxScore()) != math.Float64bits(want.MaxScore()) {
			t.Fatalf("tick %d: score %v, column build %v", i, got.MaxScore(), want.MaxScore())
		}
	}
	if want.AlarmTick() < 200 || got.AlarmTick() != want.AlarmTick() {
		t.Fatalf("alarm tick %d, column build %d", got.AlarmTick(), want.AlarmTick())
	}
}

// TestSharedCalibrationKeepsDetectorsIndependent deploys and then updates
// a fleet through calls that share one calibration, and checks every
// device still owns its detectors: drifting one device's traffic (while
// another serves clean traffic concurrently) alarms only that device.
func TestSharedCalibrationKeepsDetectorsIndependent(t *testing.T) {
	f := newRolloutFixture(t, 4)
	assertOwnMonitors := func(stage string) {
		seen := make(map[*observe.Monitor]string)
		for _, d := range f.p.Deployments() {
			if d.Monitor == nil {
				t.Fatalf("%s: %s has no monitor", stage, d.DeviceID)
			}
			if other, ok := seen[d.Monitor]; ok {
				t.Fatalf("%s: %s and %s share a monitor", stage, d.DeviceID, other)
			}
			seen[d.Monitor] = d.DeviceID
		}
	}
	assertOwnMonitors("DeployMany")

	res, err := f.p.Rollout(f.v2, RolloutConfig{
		Waves:       []rollout.Wave{{Name: "canary", Fraction: 0.25}, {Name: "fleet", Fraction: 1.0}},
		Seed:        5,
		Calibration: f.ds,
		Bake: func(_ rollout.Wave, ids []string) error {
			f.drive(t, ids, f.inRows, 2)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("rollout did not complete: %+v", res)
	}
	assertOwnMonitors("Rollout")

	deps := f.p.Deployments()
	drifted, clean := deps[0], deps[1]
	if drifted.Version.ID != f.v2.ID || clean.Version.ID != f.v2.ID {
		t.Fatal("the probed deployments were not updated by the rollout")
	}
	var wg sync.WaitGroup
	for _, job := range []struct {
		d    *Deployment
		rows [][]float32
	}{{drifted, f.badRows}, {clean, f.inRows}} {
		job := job
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 8; r++ {
				for _, o := range job.d.InferBatch(job.rows) {
					if o.Err != nil {
						t.Error(o.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if !drifted.Health().DriftAlarm {
		t.Fatal("drifted traffic raised no alarm")
	}
	if clean.Health().DriftAlarm {
		t.Fatal("another device's drift alarmed a device serving clean traffic")
	}
}

// TestCalibrationMonitorAllocsIndependentOfRows: once calibrated, building
// a device's monitor costs the same whatever the reference set's size.
func TestCalibrationMonitorAllocsIndependentOfRows(t *testing.T) {
	var allocs []float64
	for _, rows := range []int{100, 10000} {
		cal, err := newCalibration(calibrationSet(rows))
		if err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() {
			if _, err := cal.monitor(); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("monitor build allocates %v for 100 rows, %v for 10000", allocs[0], allocs[1])
	}
	// One detector per feature, the detector slice and the monitor.
	if allocs[0] > 6+2 {
		t.Fatalf("monitor build allocates %v, want at most 8", allocs[0])
	}
}

// TestEmptyCalibrationSetFails: an empty reference set used to divide by
// zero inside the monitor build; every entry point now reports an error.
func TestEmptyCalibrationSetFails(t *testing.T) {
	p, _, versions := fixture(t, 6)
	empty := &dataset.Dataset{X: tensor.New(0, 4)}
	if _, err := p.Deploy("phone-00", "clf", DeployConfig{Calibration: empty}); err == nil {
		t.Fatal("Deploy accepted an empty calibration set")
	}
	if _, err := p.DeployMany([]string{"phone-01"}, "clf", DeployConfig{Calibration: empty}); err == nil {
		t.Fatal("DeployMany accepted an empty calibration set")
	}
	if _, ok := p.Deployment("phone-00"); ok {
		t.Fatal("a failed Deploy left a deployment behind")
	}
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Update(versions[0], UpdateOptions{Calibration: empty}); err == nil {
		t.Fatal("Update accepted an empty calibration set")
	}
	if _, err := p.Rollout(versions[0], RolloutConfig{Calibration: empty}); err == nil {
		t.Fatal("Rollout accepted an empty calibration set")
	}
}
