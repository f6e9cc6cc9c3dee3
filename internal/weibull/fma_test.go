//go:build amd64 && !amd64.v3

package weibull

import (
	"os"
	"os/exec"
	"testing"

	"repro/internal/cpufeat"
)

// TestExpKernelOffWithoutFMA runs this test binary again with Go's FMA
// use turned off by GODEBUG. math.Exp then takes its plain path, whose
// results the kernel does not reproduce, so the init probe must leave
// the kernel off and every sweep to math.Exp. From GOAMD64=v3 on, FMA
// is part of the target and GODEBUG cannot turn it off, so the test is
// built below v3 only.
func TestExpKernelOffWithoutFMA(t *testing.T) {
	if os.Getenv("WEIBULL_TEST_FMA_OFF") == "1" {
		if !cpufeat.AVX512() || haveExpKernel {
			t.Fatalf("GODEBUG=cpu.fma=off: CPU check %v, kernel %v; want true, false", cpufeat.AVX512(), haveExpKernel)
		}
		return
	}
	kernelOrSkip(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestExpKernelOffWithoutFMA$", "-test.count=1")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off", "WEIBULL_TEST_FMA_OFF=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
}
