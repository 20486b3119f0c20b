import sys
from gowerslab.cli import main
sys.exit(main())
