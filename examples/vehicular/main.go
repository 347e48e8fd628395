// Vehicular tracking on the live distributed runtime: a fleet of vehicles
// moves through a grid of road-side sensors concurrently while
// dispatchers query their positions. This exercises the message-passing
// realization of MOT (operations walk station to station on the caller's
// goroutine as per-hop messages between sensors) rather than the metered
// sequential engine.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sync"

	mot "repro"
)

func main() {
	// A 24x24 road grid: 576 intersections with road-side sensors.
	g := mot.Grid(24, 24)
	d, err := mot.NewDistributed(g, mot.Options{Seed: 42, SpecialParentOffset: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()

	const fleet = 24
	const trips = 60

	var wg sync.WaitGroup
	positions := make([]mot.NodeID, fleet)
	for v := 0; v < fleet; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + v)))
			pos := mot.NodeID(rng.Intn(g.N()))
			if err := d.Publish(mot.ObjectID(v), pos); err != nil {
				log.Fatal(err)
			}
			for t := 0; t < trips; t++ {
				nbrs := g.NeighborIDs(pos)
				pos = nbrs[rng.Intn(len(nbrs))]
				if err := d.Move(mot.ObjectID(v), pos); err != nil {
					log.Fatal(err)
				}
				// Every few blocks a dispatcher checks in on the vehicle.
				if t%15 == 14 {
					dispatcher := mot.NodeID(rng.Intn(g.N()))
					got, _, err := d.Query(dispatcher, mot.ObjectID(v))
					if err != nil {
						log.Fatal(err)
					}
					if got != pos {
						log.Fatalf("vehicle %d: dispatcher saw %d, truth %d", v, got, pos)
					}
				}
			}
			positions[v] = pos
		}(v)
	}
	wg.Wait()

	// Final roll call from the depot (sensor 0).
	correct := 0
	for v := 0; v < fleet; v++ {
		got, _, err := d.Query(0, mot.ObjectID(v))
		if err != nil {
			log.Fatal(err)
		}
		if got == positions[v] {
			correct++
		}
	}
	fmt.Printf("fleet of %d vehicles, %d moves each, tracked across %d sensors\n",
		fleet, trips, g.N())
	fmt.Printf("final roll call: %d/%d located correctly\n", correct, fleet)
	fmt.Printf("total message distance: %.0f (%.1f per maintenance operation)\n",
		d.Cost(), d.Cost()/float64(fleet*trips))
}
