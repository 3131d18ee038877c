package main

import "testing"

// TestPathlineReadAmplification pins what the walkthrough's third
// section exists to show, on the engine: through a time-sliced dataset
// the same spatial block is re-read for every epoch a trajectory spends
// in it — the paper's §8 "many small reads" — while the steady run
// reads each block it touches once.
func TestPathlineReadAmplification(t *testing.T) {
	steady, sliced, d, err := pathlineReads()
	if err != nil {
		t.Fatal(err)
	}
	if steady == 0 || steady > int64(d.NumSpatialBlocks()) {
		t.Fatalf("steady run read %d blocks of %d", steady, d.NumSpatialBlocks())
	}
	if sliced < 2*steady {
		t.Errorf("time-sliced run read %d block slices, want at least 2x the steady %d", sliced, steady)
	}
}
