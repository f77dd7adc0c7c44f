//go:build !mmdebug

package cpusim

// mmdebug turns on Access's hit assertion (checkHit). Build with
// -tags mmdebug to enable it; without the tag the check compiles away.
const mmdebug = false
