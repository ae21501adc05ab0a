package platform

// CheckFastPath runs checkFastPath on a fresh envelope, for the external
// tests that capture the lines of senders built on this package.
func CheckFastPath(line []byte) error {
	var env Envelope
	return checkFastPath(&env, line)
}
