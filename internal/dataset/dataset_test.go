package dataset

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sample(t *testing.T) *Dataset {
	t.Helper()
	d := New([]string{"a", "b"})
	rows := []struct {
		x []float64
		y int
	}{
		{[]float64{1, 2}, 0}, {[]float64{3, 4}, 1}, {[]float64{5, 6}, 0}, {[]float64{7, 8}, 1},
	}
	for _, r := range rows {
		if err := d.Add(r.x, r.y); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestAddValidates(t *testing.T) {
	d := New([]string{"a", "b"})
	if err := d.Add([]float64{1}, 0); err == nil {
		t.Error("want error for wrong width")
	}
	if err := d.Add([]float64{1, 2}, 0); err != nil {
		t.Errorf("Add: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := sample(t)
	d.Y = d.Y[:2]
	if err := d.Validate(); err == nil {
		t.Error("want error for label length mismatch")
	}
	d = sample(t)
	d.W = []float64{1}
	if err := d.Validate(); err == nil {
		t.Error("want error for weight length mismatch")
	}
	d = sample(t)
	d.X[1] = []float64{1}
	if err := d.Validate(); err == nil {
		t.Error("want error for ragged row")
	}
}

func TestClassCountsAndClasses(t *testing.T) {
	d := sample(t)
	if d.NumClasses() != 2 {
		t.Errorf("NumClasses = %d", d.NumClasses())
	}
}

func TestSubsetSharesRows(t *testing.T) {
	d := sample(t)
	s := d.Subset([]int{3, 0})
	if s.NumInstances() != 2 || s.Y[0] != 1 || s.X[1][0] != 1 {
		t.Errorf("Subset wrong: %+v", s)
	}
	d.X[3][0] = 99
	if s.X[0][0] != 99 {
		t.Error("Subset should share row storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sample(t)
	c := d.Clone()
	d.X[0][0] = 42
	if c.X[0][0] == 42 {
		t.Error("Clone shares row storage")
	}
}

func TestAppendChecksSchema(t *testing.T) {
	d := sample(t)
	other := New([]string{"a", "zzz"})
	other.Add([]float64{0, 0}, 0)
	if err := d.Append(other); err == nil {
		t.Error("want error for name mismatch")
	}
	ok := sample(t)
	if err := d.Append(ok); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if d.NumInstances() != 8 {
		t.Errorf("rows = %d, want 8", d.NumInstances())
	}
	weighted := sample(t)
	weighted.W = []float64{1, 1, 1, 1}
	if err := d.Append(weighted); err == nil {
		t.Error("want error for mismatched weight presence")
	}
}

func TestWeightDefaults(t *testing.T) {
	d := sample(t)
	if d.Weight(0) != 1 {
		t.Errorf("default weight = %g", d.Weight(0))
	}
	d.W = []float64{2, 1, 1, 1}
	if d.Weight(0) != 2 {
		t.Errorf("weight = %g", d.Weight(0))
	}
}

func TestColumnAndFeatureIndex(t *testing.T) {
	d := sample(t)
	col := d.Column(1)
	if col[2] != 6 {
		t.Errorf("Column(1)[2] = %g", col[2])
	}
}

func TestStandardizeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New([]string{"a", "b", "c"})
		n := 2 + rng.Intn(100)
		for i := 0; i < n; i++ {
			d.Add([]float64{rng.NormFloat64() * 10, rng.Float64(), 5}, rng.Intn(2))
		}
		means, stds := d.Standardize()
		_ = means
		// Post-standardization: each non-constant column has ~0 mean, ~1 std.
		for j := 0; j < 2; j++ {
			m, v := 0.0, 0.0
			for _, row := range d.X {
				m += row[j]
			}
			m /= float64(n)
			for _, row := range d.X {
				v += (row[j] - m) * (row[j] - m)
			}
			v /= float64(n)
			if math.Abs(m) > 1e-8 || math.Abs(math.Sqrt(v)-1) > 1e-6 {
				return false
			}
		}
		// Constant column: centered, std treated as 1.
		if stds[2] != 1 {
			return false
		}
		for _, row := range d.X {
			if row[2] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestApplyStandardizeMatchesTrain(t *testing.T) {
	train := sample(t)
	test := sample(t)
	means, stds := train.Standardize()
	test.ApplyStandardize(means, stds)
	for i := range train.X {
		for j := range train.X[i] {
			if math.Abs(train.X[i][j]-test.X[i][j]) > 1e-12 {
				t.Fatalf("transform mismatch at (%d,%d)", i, j)
			}
		}
	}
}
