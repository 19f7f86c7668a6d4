package experiments

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

func TestRunIndexedCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		hits := make([]int32, 37)
		runIndexed(workers, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, h)
			}
		}
	}
}

// TestTable1ParallelMatchesSerial pins the harness's central promise:
// experiment cells own their RNGs and systems, so the worker count
// changes wall-clock time only — every cell of the parallel run equals
// the serial run exactly, floats included.
func TestTable1ParallelMatchesSerial(t *testing.T) {
	p := fastParams()
	p.MaxRounds = 80

	serial := p
	serial.Workers = 1
	parallel := p
	parallel.Workers = 4

	a := RunTable1(serial)
	b := RunTable1(parallel)
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i] != b.Cells[i] {
			t.Errorf("cell %d differs:\nserial:   %+v\nparallel: %+v", i, a.Cells[i], b.Cells[i])
		}
	}
}

// sameSeries fails the test unless every column of the serial and the
// parallel run of one series is equal, floats included.
func sameSeries(t *testing.T, serial, parallel *metrics.Series) {
	t.Helper()
	if !reflect.DeepEqual(serial.Columns(), parallel.Columns()) || serial.Len() == 0 {
		t.Fatalf("%s: columns %v (%d points) vs %v", serial.Title, serial.Columns(), serial.Len(), parallel.Columns())
	}
	for _, col := range serial.Columns() {
		if !reflect.DeepEqual(serial.Column(col), parallel.Column(col)) {
			t.Errorf("%s: column %q differs between serial and parallel runs", serial.Title, col)
		}
	}
}

// serialAndParallel returns the fast parameter set at 1 and at 4
// workers.
func serialAndParallel() (serial, parallel Params) {
	p := fastParams()
	p.MaxRounds = 40
	serial, parallel = p, p
	serial.Workers, parallel.Workers = 1, 4
	return serial, parallel
}

// The figure sweeps perturb one private fork per cell, so they must be
// order-independent too.
func TestFig2ParallelMatchesSerial(t *testing.T) {
	serial, parallel := serialAndParallel()
	a, b := RunFig2(serial), RunFig2(parallel)
	sameSeries(t, a.UpdatedPeers, b.UpdatedPeers)
	sameSeries(t, a.UpdatedWorkload, b.UpdatedWorkload)
}

// Fig 3 is the sweep whose cells change the content of peers that share
// their built indexes with the base and with every other fork.
func TestFig3ParallelMatchesSerial(t *testing.T) {
	serial, parallel := serialAndParallel()
	a, b := RunFig3(serial), RunFig3(parallel)
	sameSeries(t, a.UpdatedPeers, b.UpdatedPeers)
	sameSeries(t, a.UpdatedData, b.UpdatedData)
}

func TestFig4ParallelMatchesSerial(t *testing.T) {
	serial, parallel := serialAndParallel()
	sameSeries(t, RunFig4(serial, nil), RunFig4(parallel, nil))
}
