module jointadmin/benchmark

go 1.22

require jointadmin v0.0.0

replace jointadmin => ../
