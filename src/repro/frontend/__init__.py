"""Decoupled front-end: fetch blocks, RAS, stream predictor, prediction unit."""

from .fetch_block import FetchBlock, FetchLineRequest
from .prediction import PredictionStats, PredictionUnit
from .ras import ReturnAddressStack
from .stream_predictor import StreamPredictor, StreamPrediction

__all__ = [
    "FetchBlock",
    "FetchLineRequest",
    "PredictionStats",
    "PredictionUnit",
    "ReturnAddressStack",
    "StreamPredictor",
    "StreamPrediction",
]
