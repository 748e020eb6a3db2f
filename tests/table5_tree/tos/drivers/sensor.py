"""Synthetic SHT11 sensor driver."""


def read(sensor, logger):
    logger.record(3, sensor.res_id, sensor.value)
    return sensor.value
