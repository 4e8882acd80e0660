package sim

// PhaseTwoComputes is how many hit-rate profiles (reuse.ReplayL2 calls)
// the profile memo has computed in this process.
func PhaseTwoComputes() int { return phaseTwo.Stats().Computes }
