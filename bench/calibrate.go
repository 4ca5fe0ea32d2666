package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
)

// calibrate is a fixed amount of work that shares no code with jxplain:
// it renders a fixed set of JSON records and decodes them with
// encoding/json on two goroutines, so it frames, scans and allocates the
// way a CLI op does. Timed as a fresh process right after every op, it
// measures how fast the host is at that moment.
func calibrate() {
	r := rand.New(rand.NewSource(1))
	lines := make([][]byte, calRecords)
	for i := range lines {
		lines[i] = fmt.Appendf(nil, `{"id":%d,"name":"n%08x","ok":%v,"tags":["a","b%d"],`+
			`"geo":{"lat":%.4f,"lon":%.4f},"vals":[%d,%d,%d],"meta":{"k%d":{"x":null,"y":"%x"}}}`,
			i, r.Uint32(), r.Intn(2) == 0, r.Intn(9), r.Float64()*90, r.Float64()*180,
			r.Intn(1000), r.Intn(1000), r.Intn(1000), r.Intn(50), r.Uint32())
	}
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(lines)*calPasses; i += 2 {
				var v any
				if err := json.Unmarshal(lines[i%len(lines)], &v); err != nil {
					panic("calibration records are malformed: " + err.Error())
				}
			}
		}()
	}
	wg.Wait()
}

const (
	calRecords = 4000
	calPasses  = 4
)
