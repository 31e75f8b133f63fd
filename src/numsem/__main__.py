import gc
import sys

from .cli import main

gc.freeze()  # the imports' objects live until exit: no collection, the last one either, walks them
sys.exit(main())
