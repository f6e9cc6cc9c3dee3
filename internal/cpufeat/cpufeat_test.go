package cpufeat

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAVX512MatchesCPUInfo checks the CPUID decision against the flags
// Linux reports in /proc/cpuinfo, which also reflect what the kernel
// enabled.
func TestAVX512MatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX512() {
			t.Fatal("AVX512() true off amd64")
		}
		return
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo has no flags line")
	}
	has := map[string]bool{}
	for _, f := range flags {
		has[f] = true
	}
	want := has["avx512f"] && has["avx512bw"] && has["avx2"] && has["avx"] && has["fma"]
	if AVX512() != want {
		t.Fatalf("AVX512() = %v, /proc/cpuinfo flags say %v", AVX512(), want)
	}
	t.Logf("AVX512() = %v", want)
}
