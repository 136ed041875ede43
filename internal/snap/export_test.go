package snap

// ForcePortable makes every typed section take the encoding/binary path —
// what a big-endian host runs, on the writing side and on the reading side
// — until the returned function is called.
func ForcePortable() (restore func()) {
	old := hostLittleEndian
	hostLittleEndian = false
	return func() { hostLittleEndian = old }
}
