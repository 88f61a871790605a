//go:build race

package sharedrsa

const raceEnabled = true
