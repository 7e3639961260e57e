module jets/bench

go 1.22

require jets v0.0.0

replace jets => ../
