"""Graph substrate: canonical edge lists, enumeration, cores, the driver mirror."""
