//go:build !amd64

package cpufeat

const avx512 = false
