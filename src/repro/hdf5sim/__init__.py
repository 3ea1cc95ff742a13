"""Simplified HDF5 substrate: files, datasets, VOL connector, MPI ranks."""

from .dataset import Dataset, Extent
from .file import H5File, METADATA_BLOCKS
from .mpi import Communicator, SimRank
from .vol import VolConnector

__all__ = [
    "Communicator",
    "Dataset",
    "Extent",
    "H5File",
    "METADATA_BLOCKS",
    "SimRank",
    "VolConnector",
]
