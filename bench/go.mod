module swiftsim/bench

go 1.22

require swiftsim v0.0.0

replace swiftsim => ../
