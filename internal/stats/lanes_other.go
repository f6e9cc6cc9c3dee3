//go:build !amd64

package stats

// haveLaneKernel is false off amd64: Lanes runs its Go reference.
const haveLaneKernel = false

// The kernel functions are never called off amd64; they let Lanes
// compile.

func lanesFill(s *[4][8]uint64, dst *uint64, stride, k int) { panic("stats: lane kernel off amd64") }

func lanesBool(s *[4][8]uint64, bits, t *[8]uint64, n int) { panic("stats: lane kernel off amd64") }

func lanesBoolEach(s *[4][8]uint64, bits *[8]uint64, t *uint64, n int) {
	panic("stats: lane kernel off amd64")
}

func lanesJump(dst *[4][8]uint64, from *[4]uint64, c *[4][8]uint64) {
	panic("stats: lane kernel off amd64")
}
