package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/core"
)

// digest identifies a decomposition's numerical content: the Tucker model
// bytes, the fit, the convergence flag and the sweep count. Phase timings
// are left out, so two runs of the same computation have equal digests
// exactly when their results are bit-identical.
type digest [32]byte

func (d digest) String() string { return fmt.Sprintf("%x", d[:6]) }

func digestOf(dec *core.Decomposition) (digest, error) {
	h := sha256.New()
	if _, err := dec.Model.WriteTo(h); err != nil {
		return digest{}, fmt.Errorf("digest: %w", err)
	}
	var tail [13]byte
	binary.LittleEndian.PutUint64(tail[0:], math.Float64bits(dec.Fit))
	if dec.Converged {
		tail[8] = 1
	}
	binary.LittleEndian.PutUint32(tail[9:], uint32(dec.Stats.Iters))
	h.Write(tail[:])
	var d digest
	h.Sum(d[:0])
	return d, nil
}

// sameResult returns an error naming the first difference between a result
// and its reference, nil when they are bit-identical.
func sameResult(what string, want, got *core.Decomposition) error {
	if math.Float64bits(want.Fit) != math.Float64bits(got.Fit) {
		return fmt.Errorf("%s: fit %.17g, want %.17g", what, got.Fit, want.Fit)
	}
	dw, err := digestOf(want)
	if err != nil {
		return err
	}
	dg, err := digestOf(got)
	if err != nil {
		return err
	}
	if dw != dg {
		return fmt.Errorf("%s: result %s differs from reference %s", what, dg, dw)
	}
	return nil
}

// pinnedFits holds the fit bits each solve workload must reproduce for the
// seeds it was calibrated on. A seed outside the table is checked against a
// single-worker reference solve only.
var pinnedFits = map[string]map[int64]uint64{
	"batch-cold": {
		1: 0x3fef5932fd0a3cad, 2: 0x3fef42fdf9c67fd3, 3: 0x3fef5d9f02fbe31d, 4: 0x3feee0a2063c0744,
		5: 0x3fef9acaa76f5ed2, 6: 0x3fef4643ca91f919, 7: 0x3fef4776a8d10da6, 8: 0x3fef7fd359f99f9c,
		9: 0x3fef5d3531b66626, 10: 0x3fef8e98f8b3a394,
	},
	"refit": {
		1: 0x3feed71c84bc224d, 2: 0x3fef104ae9621fd7, 3: 0x3fef1f3400fa815c, 4: 0x3fee14d5984be2e8,
		5: 0x3fee7c4c22229bc2, 6: 0x3feeaeda4d08f87a, 7: 0x3fee284af8250efc, 8: 0x3feee37b90456608,
		9: 0x3fef70434820930e, 10: 0x3fedad425056bbc1,
	},
}

// checkPinned compares a fit against the table.
func checkPinned(workload string, seed int64, fit float64) error {
	want, ok := pinnedFits[workload][seed]
	if !ok {
		return nil
	}
	if got := math.Float64bits(fit); got != want {
		return fmt.Errorf("%s seed %d: fit %.17g (bits %#x), pinned bits %#x (%.17g)",
			workload, seed, fit, got, want, math.Float64frombits(want))
	}
	return nil
}
