package shard

// WindowModes lists the settings of the window-mode hook by name, the
// measured choice first.
var WindowModes = []struct {
	Name string
	Mode forceMode
}{{"measured", measured}, {"inline", forceInline}, {"pool", forcePool}, {"alternate", forceAlternate}}

// SetWindowMode sets the window-mode hook and returns a func restoring
// the previous setting.
func SetWindowMode(m forceMode) (restore func()) {
	old := windowMode
	windowMode = m
	return func() { windowMode = old }
}
