package main

import (
	"bytes"
	"testing"
)

// TestDualRailGolden pins the default output: the IID availability
// surface (Equation 1 mixture) and the effective availability at N=10.
func TestDualRailGolden(t *testing.T) {
	const golden = `# per-component steady state: MTBF 1000h0m0s, MTTR 4h0m0s → q = 0.003984

# pair availability under IID component failures (Equation 1 mixture)
   q \ N         4         8        12        16        32        64
   0.001  0.999993  0.999993  0.999993  0.999993  0.999993  0.999993
   0.005  0.999826  0.999826  0.999826  0.999826  0.999826  0.999826
   0.010  0.999310  0.999310  0.999310  0.999310  0.999310  0.999310
   0.020  0.997278  0.997280  0.997280  0.997280  0.997280  0.997280
   0.050  0.983692  0.983731  0.983731  0.983731  0.983731  0.983731
   0.100  0.939207  0.939680  0.939681  0.939681  0.939681  0.939681

# effective pair availability at N=10 (probe 1s, miss 2)
structural: 0.999890   detection penalty: 0.000002   effective: 0.999888 (3 nines, 59m0s downtime/yr)
`
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("dual-rail availability drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestFabricGolden pins -topology: the Monte Carlo structural term on
// a k=8 fat-tree is exact for its seed, at every worker count.
func TestFabricGolden(t *testing.T) {
	const golden = `# fatTree: 128 hosts × 1 ports, 80 switches, 256 trunks (464 components)
# per-component steady state: MTBF 1000h0m0s, MTTR 4h0m0s → q = 0.003984
# monitored pair: hosts 0 and 127 (11 active-path components)

structural: 0.983500 ±0.001766 (Monte Carlo, 20000 iterations)
detection penalty: 0.000006   effective: 0.983494 (1 nines, 144h36m0s downtime/yr)
`
	for _, workers := range []string{"1", "3"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-topology", "fatTree:k=8", "-mc", "20000", "-workers", workers}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		if out.String() != golden {
			t.Fatalf("workers=%s: fabric availability drifted:\n--- got ---\n%s--- want ---\n%s", workers, out.String(), golden)
		}
	}
}

// TestBadFlags exercises the error paths.
func TestBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &out, &errb); code != 2 {
		t.Fatal("unknown flag not rejected with usage exit code")
	}
	if code := run([]string{"-topology", "torus:k=3"}, &out, &errb); code != 1 {
		t.Fatal("unknown fabric kind accepted")
	}
	if code := run([]string{"-mtbf", "0s"}, &out, &errb); code != 1 {
		t.Fatal("zero MTBF accepted")
	}
}
