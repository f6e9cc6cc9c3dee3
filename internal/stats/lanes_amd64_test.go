package stats

import "testing"

// TestLanesReferenceMatchesSerial runs TestLanesMatchSerial's checks on
// the Go reference that hosts without the kernel use, where the kernel
// would otherwise take every call.
func TestLanesReferenceMatchesSerial(t *testing.T) {
	if !haveLaneKernel {
		t.Skip("no lane kernel: TestLanesMatchSerial already runs the reference")
	}
	haveLaneKernel = false
	defer func() { haveLaneKernel = true }()
	checkLanesMatchSerial(t)
}
