module telcochurn/bench

go 1.22

require telcochurn v0.0.0

replace telcochurn => ../
