"""The package's exception types."""

import inspect
import pickle

from halfband import errors

# constructor arguments of the types that take more than a message
ARGS = {"BandTooThinError": (0.01, 1e-30), "EmptyConstraintError": (2.5, 1.25)}


def test_every_error_survives_pickling():
    # a worker process sends its error to the caller pickled
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__]
    assert set(ARGS) < {cls.__name__ for cls in classes}
    for cls in classes:
        exc = cls(*ARGS.get(cls.__name__, ("a message",)))
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert vars(back) == vars(exc)
