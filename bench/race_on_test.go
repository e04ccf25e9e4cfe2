//go:build race

package main

// smokeSlowdown stretches TestSmoke's window under the race detector. With
// the four workloads running side by side it slows the fleet enough that a
// 600 ms window holds no upload, and a 6 s one only two of
// repair_foreground's, which fit between repair cycles.
const smokeSlowdown = 20
