from .cli import exit_main

if __name__ == "__main__":
    exit_main()
