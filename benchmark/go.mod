module unijoin/benchmark

go 1.24

require unijoin v0.0.0

replace unijoin => ../
