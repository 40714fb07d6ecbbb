//go:build !race

package sccsim_test

const raceEnabled = false
