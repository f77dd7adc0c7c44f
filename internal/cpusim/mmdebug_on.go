//go:build mmdebug

package cpusim

// mmdebug turns on Access's hit assertion (checkHit).
const mmdebug = true
