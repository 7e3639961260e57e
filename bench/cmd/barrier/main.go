// Command barrier is the MPI task of the pilot-exec workload: a real
// executable that wires up through the PMI_* environment the Hydra proxy
// sets, does one barrier and exits. It is built at set-up because no such
// binary ships with the repo (the synthetic apps are in-process functions).
package main

import (
	"fmt"
	"os"

	"jets/internal/mpi"
)

func main() {
	comm, err := mpi.InitEnv()
	if err == nil {
		err = comm.Barrier()
		comm.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "barrier:", err)
		os.Exit(1)
	}
}
