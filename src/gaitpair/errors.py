"""Exception hierarchy shared across the toolkit.

Every error raised by the library derives from GaitPairError so callers can
catch broadly.  The CLI gives each family one exit code: ConfigError 64 (a
bad parameter or an output directory it cannot create), SchemaMismatch 2 (a
malformed input file), InsufficientData 5 (well-formed input too small for
the work) and any other GaitPairError 3.
"""


class GaitPairError(Exception):
    """Base class for all library errors."""


class ConfigError(GaitPairError):
    """Invalid parameter combination."""


# -- signal preprocessing ------------------------------------------------------

class EmptyStream(GaitPairError):
    """IMU record contains no (or too few) samples."""


class NonFiniteSample(GaitPairError):
    """NaN or infinity encountered in sensor data."""


class LengthMismatch(GaitPairError):
    """Paired inputs differ in length where equality is required."""


class InvalidBand(GaitPairError):
    """Bandpass corner frequencies are out of range for the sample rate."""


class UnstableFilter(GaitPairError):
    """Designed filter has a pole on or outside the unit circle."""


# -- gait segmentation ---------------------------------------------------------

class ZeroVariance(GaitPairError):
    """Signal is constant; autocorrelation is undefined."""


class TooFewMaxima(GaitPairError):
    """Not enough autocorrelation maxima to estimate the step period."""


class NoPeriodicity(GaitPairError):
    """No off-zero autocorrelation peak above the prominence floor."""


class CycleTooShort(GaitPairError):
    """A raw gait cycle has too few samples to resample."""


# -- fingerprinting ------------------------------------------------------------

class TooFewCycles(GaitPairError):
    """Averaging requires at least two gait cycles."""


class IndivisibleSegments(GaitPairError):
    """Bits-per-cycle does not divide the samples-per-cycle count."""


class CutoffTooLarge(GaitPairError):
    """Requested cutoff exceeds the fingerprint length."""


# -- error correction ----------------------------------------------------------

class DecodeFailure(GaitPairError):
    """No codeword within the correction radius of the input."""


class NoSuitableCode(ConfigError):
    """No code satisfies the requested length / error-rate constraints.

    Only parameters decide this (the threshold and the cutoff), so it is a
    configuration error.
    """


# -- protocol ------------------------------------------------------------------

class ProtocolError(GaitPairError):
    """Base class for handshake failures."""


class MalformedMessage(ProtocolError):
    """Frame or payload violates the wire format."""


class ConfirmMismatch(ProtocolError):
    """Key-confirmation MAC did not verify: the two ends' keys differ, or a
    frame was altered."""


# -- dataset I/O ---------------------------------------------------------------

class SchemaMismatch(GaitPairError):
    """A manifest, CSV or signal file does not match the documented schema."""


class MissingColumns(SchemaMismatch):
    """Required CSV columns are absent."""


class NonMonotoneTimestamps(SchemaMismatch):
    """Timestamps are not strictly increasing."""


class InsufficientData(GaitPairError):
    """Base class for well-formed input too small for the requested work."""


class SignalTooShort(InsufficientData):
    """Signal shorter than one analysis window."""


# -- evaluation ----------------------------------------------------------------

class InsufficientPairs(InsufficientData):
    """Too few record pairs, or subjects, for the requested analysis;
    guesswork trains on the subjects other than the one it attacks."""


class InsufficientBits(InsufficientData):
    """Corpus does not yield enough fingerprint bits per window."""


class MixedSampleRates(InsufficientData):
    """The analysis needs every record at one sample rate."""
