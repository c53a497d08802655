//go:build race

package experiment

// raceEnabled reports that this test binary was built with the race
// detector. The shard-count differential matrices skip under it: -race
// multiplies their minutes-long city runs past any CI budget, and the
// sharded dispatch surface has its own race coverage sized for the
// detector (TestShardDispatchRace).
const raceEnabled = true
