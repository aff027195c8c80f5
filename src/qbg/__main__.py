from . import cli

if __name__ == "__main__":
    cli.run_and_exit()
